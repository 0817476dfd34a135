"""Entropic optimal transport between copula histograms on a fixed grid.

The ground cost is squared Euclidean distance between cell centers of the
m-by-m grid scaled to the unit square, so the exact optimum is a discretized
squared 2-Wasserstein distance. The Gibbs kernel of that cost separates into
two one-axis factors, which is what makes the scaling iterations fast: every
kernel application is two m-by-m contractions instead of one m^2-by-m^2
product. The iterations run in the log domain, and each contraction is a
shifted matmul through BLAS: rows of log-weights are shifted by their max,
exponentiated and multiplied by the exponentiated one-axis kernel, with an
exact log-sum-exp only where the kernel's tails underflowed. A dense LP
oracle over the support cells provides exact values for desk-scale
instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import logsumexp

from .copula import CopulaHistogram
from .errors import (
    ConvergenceFailure,
    InvalidData,
    InvalidParameter,
    OracleTooLarge,
    UnderflowDetected,
)

__all__ = [
    "GroundCost",
    "SinkhornConfig",
    "TransportPlan",
    "default_lambda",
    "exact_ot",
    "pairwise_distance_matrix",
    "sinkhorn_distance",
    "sinkhorn_divergence",
    "wasserstein_barycenter",
]

_CHECK_EVERY = 10   # marginal residual is evaluated every this many iterations
_SOR_THETA = 1.7    # over-relaxation factor for the scaling updates (in (1, 2))
_BATCH_CHUNK = 64   # problems per engine call; caps its (B, m, m) state whatever the batch size


def default_lambda(m: int) -> float:
    """Default entropic sharpness: one grid step costs 1/m^2, so the kernel
    weight for a one-cell move is exp(-10) at this value. Sharp enough that
    entropic values track the exact optimum to well under 1% on copula-scale
    distances, soft enough that the scaling iterations converge in thousands
    of iterations rather than hundreds of thousands."""
    return 10.0 * m * m


@dataclass(frozen=True)
class GroundCost:
    """Squared Euclidean cost between cell centers of an m-by-m unit grid."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise InvalidParameter(f"grid resolution m must be >= 2, got {self.m}")

    @property
    def axis_cost(self) -> np.ndarray:
        """One-axis factor: axis_cost[i, j] = (i - j)^2 / m^2."""
        d = np.arange(self.m, dtype=float)
        return (d[:, None] - d[None, :]) ** 2 / (self.m * self.m)

    @property
    def matrix(self) -> np.ndarray:
        """Dense m^2-by-m^2 view; flat index (p, q) -> p * m + q."""
        ax = self.axis_cost
        m = self.m
        return (ax[:, None, :, None] + ax[None, :, None, :]).reshape(m * m, m * m)

    @property
    def euclidean_matrix(self) -> np.ndarray:
        """Non-squared (metric) version of `matrix`."""
        return np.sqrt(self.matrix)


@dataclass(frozen=True)
class SinkhornConfig:
    """Controls for the scaling iterations.

    lam is the sharpness of the dual form: the plan solves
    min <P, M> - h(P)/lam over the transportation polytope. Larger lam means
    closer to the exact optimum and slower convergence. tol is the iteration
    target for the L-inf marginal violation; the 1e-4 default reflects how
    scaling iterations behave at sharp lam, where marginals tighten at
    roughly 1/iterations while the value is already accurate. A problem also
    stops, as stalled, after 5 residual checks without a 10% gain; that
    fires on slow convergence too, so its residual can stay above tol. The
    polytope rounding restores exact plan marginals either way, so returned
    values are always feasible-plan costs.

    log_domain=False runs the scaling iterations with the plain kernel
    log(K exp(w)) instead of the stabilised log-sum-exp one; when that
    leaves float64 range, the solve raises UnderflowDetected. Rounding, plan
    values and wasserstein_barycenter run in the log domain either way.
    """

    lam: float
    max_iter: int = 10000
    tol: float = 1e-4
    log_domain: bool = True

    def __post_init__(self):
        if not self.lam > 0:
            raise InvalidParameter(f"lam must be positive, got {self.lam}")
        if not self.tol > 0:
            raise InvalidParameter(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidParameter(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class TransportPlan:
    """Entropic plan rounded onto the transportation polytope.

    Stored as P = diag(u) K diag(v) plus a feasibility correction that gives
    the plan exact marginals even when the scaling iterations stopped at a
    finite residual. With `correction` None it is the rank-one term
    outer(err_r, err_c) / sum(err_r); otherwise it is the closure LP's plan
    `small_plan` over the deficit cells idx_r (source) and idx_c
    (destination), flat indices p * m + q.
    """

    m: int
    lam: float
    log_u: np.ndarray   # (m, m) grid over the source cells
    log_v: np.ndarray   # (m, m) grid over the destination cells
    err_r: np.ndarray   # (m, m) leftover source mass closed by the correction
    err_c: np.ndarray   # (m, m) leftover destination mass
    correction: tuple | None = None  # (idx_r, idx_c, small_plan) or None for rank-one

    def _log_kernel(self) -> np.ndarray:
        return -self.lam * GroundCost(self.m).axis_cost

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column marginals of the plan, as m-by-m grids."""
        lk = self._log_kernel()
        row = np.exp(self.log_u + _log_kernel_apply(lk, self.log_v))
        col = np.exp(self.log_v + _log_kernel_apply(lk, self.log_u))
        s = self.err_r.sum()
        if s > 0.0:
            if self.correction is None:
                row = row + self.err_r * (self.err_c.sum() / s)
                col = col + self.err_c
            else:
                idx_r, idx_c, small = self.correction
                add_r = np.zeros(self.m * self.m)
                add_c = np.zeros(self.m * self.m)
                add_r[idx_r] = small.sum(axis=1)
                add_c[idx_c] = small.sum(axis=0)
                row = row + add_r.reshape(self.m, self.m)
                col = col + add_c.reshape(self.m, self.m)
        return row, col

    def dense(self) -> np.ndarray:
        """Materialize the full m^2-by-m^2 plan (small grids only)."""
        if self.m > 40:
            raise InvalidParameter(f"dense plan for m={self.m} would need m^4 entries")
        lk = self._log_kernel()
        m = self.m
        four = (
            self.log_u[:, :, None, None]
            + lk[:, None, :, None]
            + lk[None, :, None, :]
            + self.log_v[None, None, :, :]
        )
        plan = np.exp(four).reshape(m * m, m * m)
        s = self.err_r.sum()
        if s > 0.0:
            if self.correction is None:
                plan = plan + np.outer(self.err_r.ravel(), self.err_c.ravel()) / s
            else:
                idx_r, idx_c, small = self.correction
                plan[np.ix_(idx_r, idx_c)] += small
        return plan


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    # Lean logsumexp: high call volume makes scipy's generality too costly here.
    amax = np.max(a, axis=axis, keepdims=True)
    amax_safe = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - amax_safe), axis=axis))
    return out + np.squeeze(amax_safe, axis=axis)


_UNDERFLOW = 1e-250  # shifted products below this are recomputed exactly


def _lse_contract(lk: np.ndarray, lw: np.ndarray) -> np.ndarray:
    """out[..., i, q] = LSE_j (lw[..., i, j] + lk[j, q]) for a symmetric lk <= 0."""
    s = np.max(lw, axis=-1, keepdims=True)
    finite = np.isfinite(s)
    s = np.where(finite, s, 0.0)
    prod = np.exp(lw - s) @ np.exp(lk)
    with np.errstate(divide="ignore"):
        out = np.log(prod) + s
    # an all -inf row already gives -inf and needs no recomputation
    redo = np.nonzero((prod < _UNDERFLOW) & finite)
    if redo[0].size:
        out[redo] = _lse(lw[redo[:-1]] + lk[redo[-1]], axis=-1)
    return out


def _log_kernel_apply(lk: np.ndarray, lw: np.ndarray,
                      lk_first: np.ndarray | None = None) -> np.ndarray:
    """out[..., p, q] = LSE_{p', q'} (lk1[p, p'] + lk[q, q'] + lw[..., p', q']).

    lk1 is lk_first when given, else lk; both must be symmetric and <= 0.
    A separate first-axis kernel lets `_plan_value_log` weight one axis of
    the kernel by its cost.

    The separable kernel is applied as two shifted matmuls, one per grid
    axis; the second runs on the swapped axes. Each shifts every row of
    log-weights by its max s, computes log(exp(lw - s) @ exp(lk)) + s, and
    recomputes by the exact LSE over the row only the entries whose product
    is below 1e-250. Why that threshold: after the shift every factor lies
    in [0, 1], so a term of the product can only be lost to underflow, below
    about 1e-308, and m such terms cannot move an entry of at least 1e-250
    by more than float rounding. Smaller entries are those where the
    Gaussian kernel's tails underflowed (at the default sharpness, from nine
    grid steps on). The matmuls run slice by slice over the batch, so each
    slice's bits never depend on its batch mates; contiguous operands keep
    every slice on the same BLAS call whatever layout the caller passes.
    """
    inner = _lse_contract(lk, np.ascontiguousarray(lw))  # (..., p', q)
    outer = _lse_contract(lk if lk_first is None else lk_first,
                          np.ascontiguousarray(np.swapaxes(inner, -1, -2)))  # (..., q, p)
    return np.ascontiguousarray(np.swapaxes(outer, -1, -2))


def _kernel_apply(k: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Plain-domain counterpart of `_log_kernel_apply` (k symmetric)."""
    return k @ w @ k


def _plain_kernel_apply(lk: np.ndarray, lw: np.ndarray) -> np.ndarray:
    """`_log_kernel_apply` as log(k @ exp(lw) @ k), unstabilised: at sharp lam
    its result leaves float64 range, which the scaling loop's residual check
    reports as UnderflowDetected."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.log(_kernel_apply(np.exp(lk), np.exp(lw)))


def _plan_value_log(axis_cost: np.ndarray, lk: np.ndarray,
                    lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """<P, M> for P = diag(u) K diag(v) and the cost M = C1 (+) C1.

    With K = K1 (x) K1, M's separable form gives <P, M> as the sum over cells
    of u * [((K1 * C1) (x) K1 + K1 (x) (K1 * C1)) v]: two kernel
    applications, each with the cost-weighted log kernel lk + log(C1) on
    one axis. Their exponentiated entries are cost-weighted plan masses, so
    exp is overflow-safe. P is unchanged by (u / c, v * c), and the scaling
    iterations let the potentials drift far apart in that gauge; giving both
    the same maximum keeps the exponents, and so their rounding, small.
    """
    with np.errstate(divide="ignore"):
        lkc = lk + np.log(axis_cost)  # -inf on the zero-cost diagonal
    shift = 0.5 * (np.max(lu, axis=(-2, -1), keepdims=True)
                   - np.max(lv, axis=(-2, -1), keepdims=True))
    lu, lv = lu - shift, lv + shift
    weighted = (np.exp(lu + _log_kernel_apply(lk, lv, lk_first=lkc))
                + np.exp(lu + _log_kernel_apply(lkc, lv, lk_first=lk)))
    return np.sum(weighted, axis=(-2, -1))


def _safe_log(a: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(a)


def _round_to_polytope(lk, lr, lc, R, C, lu, lv):
    """Project the factored plan onto the transportation polytope.

    Scales rows then columns down to never exceed their targets, and closes
    the remaining mass deficit with a rank-one term. The result has exact
    marginals, so its cost is a true upper bound on the transport optimum
    regardless of where the iterations stopped. Returns adjusted potentials
    plus the deficit grids (err_r, err_c).
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        row = np.exp(lu + _log_kernel_apply(lk, lv))
        lu = lu + np.minimum(lr - _safe_log(row), 0.0)
        lu = np.where(np.isnan(lu), -np.inf, lu)
        klu = _log_kernel_apply(lk, lu)
        col = np.exp(lv + klu)
        lv = lv + np.minimum(lc - _safe_log(col), 0.0)
        lv = np.where(np.isnan(lv), -np.inf, lv)
    err_r = np.clip(R - np.exp(lu + _log_kernel_apply(lk, lv)), 0.0, None)
    err_c = np.clip(C - np.exp(lv + klu), 0.0, None)
    return lu, lv, err_r, err_c


def _rank_one_cost(axis_cost, err_r, err_c):
    """<outer(err_r, err_c) / sum(err_r), M> for the separable squared cost."""
    s = err_r.sum()
    if s <= 0.0:
        return 0.0
    num = (
        err_r.sum(axis=1) @ axis_cost @ err_c.sum(axis=1)
        + err_r.sum(axis=0) @ axis_cost @ err_c.sum(axis=0)
    )
    return float(num / s)


_CLOSURE_LP_LIMIT = 4096  # max deficit-support product for the optimal closure


def _close_deficit(err_r: np.ndarray, err_c: np.ndarray, m: int):
    """Cost and coupling that close the rounding deficit.

    Small deficits are closed optimally with a tiny transport LP over their
    support cells, whose plan is then rounded to exact marginals;
    large-support deficits fall back to the rank-one coupling (their mass is
    tol-scale, so the coarser routing is immaterial there).
    Returns (cost, correction) where correction is None for the rank-one case
    or (idx_r, idx_c, small_plan) otherwise.
    """
    s_r = err_r.sum()
    s_c = err_c.sum()
    # The two deficits agree up to float rounding; once either is at noise
    # level the plan is already feasible to that level and closure would just
    # amplify rounding junk.
    if s_r <= 1e-12 or s_c <= 1e-12:
        return 0.0, None
    # Support cells carrying under a billionth of the deficit are rounding
    # noise: pruning them keeps the LP well-scaled at no meaningful cost to
    # the restored marginals.
    idx_r = np.flatnonzero(err_r.ravel() > 1e-9 * s_r)
    idx_c = np.flatnonzero(err_c.ravel() > 1e-9 * s_c)
    if idx_r.size == 0 or idx_c.size == 0:
        return 0.0, None
    if idx_r.size * idx_c.size > _CLOSURE_LP_LIMIT:
        return _rank_one_cost(GroundCost(m).axis_cost, err_r, err_c), None
    # Solve in unit-mass units: deficit totals can sit below the LP solver's
    # feasibility tolerance, where the raw problem looks degenerate to it.
    a = err_r.ravel()[idx_r]
    b = err_c.ravel()[idx_c]
    a, b = a / a.sum(), b / b.sum()
    sub = _support_cost(idx_r, idx_c, m)
    _, plan = _transport_lp(sub, a, b, tight=False)
    # HiGHS holds the marginals and the sign only to its 1e-7 feasibility
    # tolerance, so an unrounded plan could cost less than the optimum. Round
    # it onto the polytope as _round_to_polytope does the scaling plan.
    plan = np.clip(plan, 0.0, None)
    with np.errstate(divide="ignore"):
        plan *= np.minimum(a / plan.sum(axis=1), 1.0)[:, None]
        plan *= np.minimum(b / plan.sum(axis=0), 1.0)[None, :]
    left_r = np.clip(a - plan.sum(axis=1), 0.0, None)
    left_c = np.clip(b - plan.sum(axis=0), 0.0, None)
    if left_r.sum() > 0.0:
        plan += np.outer(left_r, left_c) / left_r.sum()
    small_plan = plan * s_r
    return float(np.sum(small_plan * sub)), (idx_r, idx_c, small_plan)


def _anneal_schedule(lam: float, m: int) -> list[float]:
    # Sharpness ramp for warm starts: begin where lam * neighbor-cost ~ 1
    # (one grid step costs 1/m^2) and quadruple up to the requested lam.
    base = float(m * m)
    if lam <= base:
        return [lam]
    schedule = [lam]
    while schedule[-1] / 4.0 > base:
        schedule.append(schedule[-1] / 4.0)
    schedule.append(base)
    return schedule[::-1]


def _scaling_loop(lr, lc, lk, R, C, tol, max_iter, lu, lv, kernel):
    """Over-relaxed scaling updates with per-problem stopping.

    Over-relaxation keeps the plain Sinkhorn fixed point but contracts much
    faster in the sharp-kernel regime; where the residual stops improving the
    relaxation factor is walked back toward plain updates. Cells with zero
    mass keep their potentials pinned at -inf, outside the relaxation
    combination. `kernel` is `_log_kernel_apply` or `_plain_kernel_apply`;
    both map log-weights to log-weights. A residual that is not finite means
    the plain kernel left float64 range and raises UnderflowDetected, whose
    `.pair` holds the batch positions of those problems.

    The updates are elementwise-independent across the batch, and every
    problem freezes its potentials the moment its own stopping rule fires,
    so each result is a pure function of its own inputs, never of its batch
    mates. A problem freezes when its residual is below tol, or as stalled
    after 5 checks in a row at plain updates without a 10% gain on its best
    residual. That rule also fires on slow convergence, so a stalled problem
    can freeze well above tol. At each residual check the frozen problems
    are written to the outputs and dropped from every per-problem array, so
    later iterations touch only the problems still open; `active` maps the
    remaining rows back to their batch positions. Returns (lu, lv,
    residuals, iterations, stalled) with per-problem residuals and stall
    flags.
    """
    B = R.shape[0]
    sup_r = np.isfinite(lr)
    sup_c = np.isfinite(lc)
    neg_inf = np.float64(-np.inf)
    theta = np.full((B, 1, 1), _SOR_THETA)
    best = np.full(B, np.inf)
    stagnant = np.zeros(B, dtype=int)
    active = np.arange(B)
    stalled = np.zeros(B, dtype=bool)
    out_lu = lu.copy()
    out_lv = lv.copy()
    residuals = np.full(B, np.inf)
    it = 0
    for it in range(1, max_iter + 1):
        with np.errstate(invalid="ignore"):
            step = lr - kernel(lk, lv)
            lu = np.where(sup_r, (1.0 - theta) * lu + theta * step, neg_inf)
            step = lc - kernel(lk, lu)
            lv = np.where(sup_c, (1.0 - theta) * lv + theta * step, neg_inf)
        if it % _CHECK_EVERY == 0 or it == max_iter:
            with np.errstate(invalid="ignore"):
                row = np.exp(lu + kernel(lk, lv))
                col = np.exp(lv + kernel(lk, lu))
                res = np.maximum(
                    np.abs(row - R).max(axis=(-2, -1)),
                    np.abs(col - C).max(axis=(-2, -1)),
                )
            if not np.all(np.isfinite(res)):
                raise UnderflowDetected(f"marginal residual not finite at iteration {it}; "
                                        "retry with log_domain=True",
                                        pair=tuple(int(b) for b in active[~np.isfinite(res)]))
            converged = res < tol
            no_gain = ~converged & (res > 0.9 * best)
            improving = ~converged & ~no_gain
            hot = theta[:, 0, 0] > 1.0
            theta[:, 0, 0] = np.where(
                no_gain & hot, np.maximum(1.0, theta[:, 0, 0] - 0.35), theta[:, 0, 0]
            )
            stagnant = np.where(no_gain & ~hot, stagnant + 1, stagnant)
            stagnant[improving] = 0
            newly_stalled = stagnant >= 5
            freeze = converged | newly_stalled
            if it == max_iter:
                freeze[:] = True
            stalled[active[newly_stalled]] = True
            if np.any(freeze):
                out_lu[active[freeze]] = lu[freeze]
                out_lv[active[freeze]] = lv[freeze]
                residuals[active[freeze]] = res[freeze]
                keep = ~freeze
                if not keep.any():
                    break
                active = active[keep]
                lu, lv, lr, lc, R, C = lu[keep], lv[keep], lr[keep], lc[keep], R[keep], C[keep]
                sup_r, sup_c, theta = sup_r[keep], sup_c[keep], theta[keep]
                best, stagnant, res = best[keep], stagnant[keep], res[keep]
            best = np.minimum(best, res)
    return out_lu, out_lv, residuals, it, stalled


def _lex_swap_mask(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """True where (R, C) should swap so argument order never affects results.

    The transport value is symmetric in its arguments, but the alternating
    updates are not; solving each pair in a canonical orientation makes
    d(r, c) and d(c, r) bitwise identical. The orientation puts the grid
    with the smaller mass at the first differing flat cell first; equal
    grids compare equal at cell 0 and never swap.
    """
    r = R.reshape(R.shape[0], -1)
    c = C.reshape(C.shape[0], -1)
    first = np.argmax(r != c, axis=1)
    rows = np.arange(r.shape[0])
    return r[rows, first] > c[rows, first]


def _sinkhorn_many(R: np.ndarray, C: np.ndarray, cost: GroundCost, cfg: SinkhornConfig):
    """Batched scaling iterations with sharpness annealing.

    R, C have shape (B, m, m); returns (values, log_u, log_v, err_r, err_c,
    corrections, iters). Warm-starting through the sharpness ramp changes
    nothing about the fixed point at cfg.lam; it only accelerates
    convergence, and the schedule is a pure function of (lam, m). Every
    problem stops on its own rule, so batching never changes results.
    cfg.log_domain picks the kernel of the scaling iterations only. The final
    plan is rounded onto the polytope in the log domain, making the returned
    values costs of exactly feasible plans.
    """
    swap = _lex_swap_mask(R, C)[:, None, None]
    R, C = np.where(swap, C, R), np.where(swap, R, C)
    lr = _safe_log(R)
    lc = _safe_log(C)
    lv = np.zeros_like(C)
    lu = np.zeros_like(R)
    schedule = _anneal_schedule(cfg.lam, cost.m)
    kernel = _log_kernel_apply if cfg.log_domain else _plain_kernel_apply
    total_iters = 0
    residuals = np.full(R.shape[0], np.inf)
    stalled = np.zeros(R.shape[0], dtype=bool)
    for stage, lam_s in enumerate(schedule):
        lk = -lam_s * cost.axis_cost
        last = stage == len(schedule) - 1
        if last:
            tol, budget = cfg.tol, max(cfg.max_iter - total_iters, 1)
        else:
            tol, budget = max(cfg.tol, 1e-4), min(1000, cfg.max_iter)
        lu, lv, residuals, it, stalled = _scaling_loop(lr, lc, lk, R, C, tol, budget,
                                                       lu, lv, kernel)
        total_iters += it
        if not last:
            ratio = schedule[stage + 1] / lam_s
            lu = lu * ratio
            lv = lv * ratio
    lk = -cfg.lam * cost.axis_cost
    failed = (residuals >= cfg.tol) & ~stalled
    if np.any(failed):
        values = _plan_value_log(cost.axis_cost, lk, lu, lv)
        worst = float(residuals[failed].max())
        raise ConvergenceFailure(
            f"sinkhorn residual {worst:.3e} >= tol {cfg.tol:.1e} after "
            f"{total_iters} iterations (lam={cfg.lam:g})",
            residual=worst,
            value=float(values[0]) if len(values) == 1 else values.tolist(),
            pair=tuple(int(b) for b in np.flatnonzero(failed)),
        )
    lu, lv, err_r, err_c = _round_to_polytope(lk, lr, lc, R, C, lu, lv)
    values = _plan_value_log(cost.axis_cost, lk, lu, lv)
    corrections = []
    for b in range(R.shape[0]):
        extra, corr = _close_deficit(err_r[b], err_c[b], cost.m)
        values[b] += extra
        if swap[b, 0, 0] and corr is not None:
            corr = (corr[1], corr[0], corr[2].T)
        corrections.append(corr)
    # undo the canonical orientation so plans describe the caller's direction
    out_lu = np.where(swap, lv, lu)
    out_lv = np.where(swap, lu, lv)
    out_er = np.where(swap, err_c, err_r)
    out_ec = np.where(swap, err_r, err_c)
    return values, out_lu, out_lv, out_er, out_ec, corrections, total_iters


def _check_pair(r: CopulaHistogram, c: CopulaHistogram, cost: GroundCost):
    if r.m != c.m:
        raise InvalidData(f"histogram resolutions differ: {r.m} vs {c.m}")
    if r.m != cost.m:
        raise InvalidData(f"cost resolution {cost.m} does not match histograms ({r.m})")


def sinkhorn_distance(r: CopulaHistogram, c: CopulaHistogram, cost: GroundCost,
                      cfg: SinkhornConfig) -> tuple[float, TransportPlan, int]:
    """Dual-Sinkhorn distance <P_lam, M> plus the factored plan and iteration count.

    The value is always an upper bound on the exact transport optimum because
    the entropic plan is feasible for the unregularized problem.
    """
    _check_pair(r, c, cost)
    values, lu, lv, er, ec, corrs, iters = _sinkhorn_many(
        r.mass[None, :, :], c.mass[None, :, :], cost, cfg
    )
    plan = TransportPlan(cost.m, cfg.lam, lu[0], lv[0], er[0], ec[0], corrs[0])
    return float(values[0]), plan, iters


def sinkhorn_values_batch(rs, cs, cost: GroundCost, cfg: SinkhornConfig) -> np.ndarray:
    """Dual-Sinkhorn values for aligned lists of histograms.

    Takes any number of problems and hands them to the engine in chunks of
    _BATCH_CHUNK. Each value is a pure function of its own pair, so neither
    the chunking nor the batch mates change a bit of it. A ConvergenceFailure
    lists the positions of the failing problems in `.pair`.
    """
    if len(rs) != len(cs) or not rs:
        raise InvalidData("need equally many source and destination histograms")
    for r, c in zip(rs, cs):
        _check_pair(r, c, cost)
    values = []
    for start in range(0, len(rs), _BATCH_CHUNK):
        R = np.stack([h.mass for h in rs[start:start + _BATCH_CHUNK]])
        C = np.stack([h.mass for h in cs[start:start + _BATCH_CHUNK]])
        try:
            values.append(_sinkhorn_many(R, C, cost, cfg)[0])
        except ConvergenceFailure as exc:
            if exc.pair is not None:  # a closure-LP failure names no problem
                exc.pair = tuple(start + b for b in exc.pair)
            raise
    return np.concatenate(values)


def sinkhorn_divergences(xs, c: CopulaHistogram, cost: GroundCost,
                         cfg: SinkhornConfig) -> np.ndarray:
    """Debiased values S(x, c) = d(x, c) - (d(x, x) + d(c, c)) / 2 for each x.

    d(x, c), d(x, x) and the shared d(c, c) are solved as one batch.
    """
    xs = list(xs)
    n = len(xs)
    vals = sinkhorn_values_batch(xs + xs + [c], [c] * n + xs + [c], cost, cfg)
    return vals[:n] - 0.5 * (vals[n:2 * n] + vals[-1])


def sinkhorn_divergence(r: CopulaHistogram, c: CopulaHistogram, cost: GroundCost,
                        cfg: SinkhornConfig) -> float:
    """Debiased value S(r, c) = d(r, c) - (d(r, r) + d(c, c)) / 2.

    Symmetric by construction and exactly zero for identical inputs, which
    removes the entropic self-distance bias near the 0/1 ends of the
    target/forget coefficient.
    """
    if r.same_bits(c):
        return 0.0
    return float(sinkhorn_divergences([r], c, cost, cfg)[0])


def pairwise_distance_matrix(hists, cost: GroundCost, cfg: SinkhornConfig) -> np.ndarray:
    """Symmetric matrix of dual-Sinkhorn values over all unordered pairs.

    The diagonal stores the entropic self-distance (not forced to zero).
    Evaluation order is fixed, so the output never depends on scheduling.
    A ConvergenceFailure lists the failing (i, j) pairs in `.pair`.
    """
    hists = list(hists)
    n = len(hists)
    if n == 0:
        raise InvalidData("need at least one histogram")
    iu, ju = np.triu_indices(n)
    try:
        values = sinkhorn_values_batch([hists[i] for i in iu], [hists[j] for j in ju], cost, cfg)
    except ConvergenceFailure as exc:
        if exc.pair is not None:
            exc.pair = tuple((int(iu[b]), int(ju[b])) for b in exc.pair)
        raise
    out = np.zeros((n, n))
    out[iu, ju] = out[ju, iu] = values
    return out


def wasserstein_barycenter(hists, weights, cost: GroundCost,
                           cfg: SinkhornConfig) -> CopulaHistogram:
    """Fixed-support entropic barycenter via iterative Bregman projections.

    Minimizes sum_i w_i d_lam(mu, nu_i) over histograms mu on the same grid.
    Stops when the barycenter iterate moves less than cfg.tol in L-inf.
    """
    hists = list(hists)
    if not hists:
        raise InvalidData("need at least one histogram")
    for h in hists:
        _check_pair(h, hists[0], cost)
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(hists),) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise InvalidData("weights must be a simplex vector matching the histogram count")

    lk = -cfg.lam * cost.axis_cost
    la = _safe_log(np.stack([h.mass for h in hists]))  # (n, m, m)
    lu = np.zeros_like(la)
    mu = np.full((cost.m, cost.m), 1.0 / (cost.m * cost.m))
    residual = np.inf
    for it in range(1, cfg.max_iter + 1):
        lv = la - _log_kernel_apply(lk, lu)
        lkv = _log_kernel_apply(lk, lv)
        lmu = np.tensordot(w, lu + lkv, axes=(0, 0))
        lmu -= logsumexp(lmu)
        lu = lmu[None, :, :] - lkv
        if it % _CHECK_EVERY == 0 or it == cfg.max_iter:
            new_mu = np.exp(lmu)
            residual = float(np.max(np.abs(new_mu - mu)))
            mu = new_mu
            if residual < cfg.tol:
                break
    if residual >= cfg.tol:
        raise ConvergenceFailure(
            f"barycenter moved {residual:.3e} >= tol {cfg.tol:.1e} at iteration cap "
            f"{cfg.max_iter} (lam={cfg.lam:g})",
            residual=residual,
        )
    return CopulaHistogram(mu / mu.sum())


def _transport_lp(sub_cost: np.ndarray, r_sup: np.ndarray, c_sup: np.ndarray,
                  tight: bool = True):
    """Solve min <P, sub_cost> over plans with the given support marginals.

    The last column-sum constraint is implied by the others and dropped, which
    also absorbs float-level mismatch between sum(r_sup) and sum(c_sup). The
    tight tolerances serve the oracle; they must not be used on problems whose
    marginal entries approach 1e-10, where presolve reads them as zero.
    """
    n_r, n_c = sub_cost.shape
    rows_i = np.repeat(np.arange(n_r), n_c)
    cols_i = np.tile(np.arange(n_c), n_r)
    var = np.arange(n_r * n_c)
    a_rows = sparse.coo_matrix((np.ones(var.size), (rows_i, var)), shape=(n_r, var.size))
    keep = cols_i < n_c - 1
    a_cols = sparse.coo_matrix(
        (np.ones(int(keep.sum())), (cols_i[keep], var[keep])), shape=(n_c - 1, var.size)
    )
    a_eq = sparse.vstack([a_rows, a_cols]).tocsr()
    b_eq = np.concatenate([r_sup, c_sup[:-1]])
    # Presolve is off for the deficit closure: on supports whose normalized
    # masses fall to about 1e-9 it declared such feasible LPs infeasible.
    options = {
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    } if tight else {"presolve": False}
    res = linprog(
        sub_cost.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options=options,
    )
    if not res.success:  # equal totals and no upper bounds: only a solver fault lands here
        raise ConvergenceFailure(f"transport LP failed: {res.message}")
    return float(res.fun), res.x.reshape(n_r, n_c)


def _support_cost(sup_r: np.ndarray, sup_c: np.ndarray, m: int) -> np.ndarray:
    pr, qr = sup_r // m, sup_r % m
    pc, qc = sup_c // m, sup_c % m
    return ((pr[:, None] - pc[None, :]) ** 2 + (qr[:, None] - qc[None, :]) ** 2) / (m * m)


def exact_ot(r: CopulaHistogram, c: CopulaHistogram, cost) -> tuple[float, np.ndarray]:
    """Exact transport optimum by LP over the support cells (test oracle).

    `cost` may be a GroundCost (squared Euclidean) or a precomputed
    m^2-by-m^2 matrix, e.g. its Euclidean square root. Returns the optimal
    value and the full plan matrix.
    """
    if isinstance(cost, GroundCost):
        _check_pair(r, c, cost)
        cost_matrix = None
        m = cost.m
    else:
        cost_matrix = np.asarray(cost, dtype=float)
        m = r.m
        if r.m != c.m or cost_matrix.shape != (m * m, m * m):
            raise InvalidData("cost matrix must be m^2 x m^2 for the common resolution")

    r_flat = r.mass.ravel()
    c_flat = c.mass.ravel()
    sup_r = np.flatnonzero(r_flat > 0.0)
    sup_c = np.flatnonzero(c_flat > 0.0)
    if sup_r.size + sup_c.size > 4096:
        raise OracleTooLarge(
            f"combined support {sup_r.size + sup_c.size} exceeds the 4096-cell oracle limit"
        )
    if cost_matrix is None:
        sub = _support_cost(sup_r, sup_c, m)
    else:
        sub = cost_matrix[np.ix_(sup_r, sup_c)]
    value, sub_plan = _transport_lp(sub, r_flat[sup_r], c_flat[sup_c])
    plan = np.zeros((m * m, m * m))
    plan[np.ix_(sup_r, sup_c)] = sub_plan
    return value, plan
