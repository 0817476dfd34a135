"""Entropic optimal transport between copula histograms on a fixed grid.

The ground cost is squared Euclidean distance between cell centers of the
m-by-m grid scaled to the unit square, so the exact optimum is a discretized
squared 2-Wasserstein distance. The Gibbs kernel of that cost separates into
two one-axis factors, which is what makes the scaling iterations fast: every
kernel application is two m-by-m contractions instead of one m^2-by-m^2
product. The iterations run in the log domain, and each contraction is a
shifted matmul through BLAS: rows of log-weights are shifted by their max,
exponentiated and multiplied by the exponentiated one-axis kernel, with an
exact log-sum-exp only where the kernel's tails underflowed. Numbers below
float64's normal range send numpy's exp and the BLAS kernels down slow
paths, so the exponentiated kernel is built once per kernel by `_kernel`
with its subnormal entries set to 0, and only the exact fallback clamps its
exponents; neither changes a bit of the result. A dense LP oracle over the
support cells provides exact values for desk-scale instances. It and the
small LP that closes each rounding deficit call HiGHS directly through
scipy's bundled binding rather than through linprog, whose wrapping took
about half of each closure LP's time (see `_transport_lp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as _highs
from scipy.special import logsumexp

from .copula import CopulaHistogram
from .errors import (
    ConvergenceFailure,
    InvalidData,
    InvalidParameter,
    OracleTooLarge,
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
    converged values track the exact optimum to well under 1% (SinkhornConfig's
    default tol stops short of convergence), soft enough that the scaling
    iterations converge in thousands of steps, not hundreds of thousands."""
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
    target for the L-inf marginal violation. The 1e-4 default stops short of
    the entropic optimum: on 40 pairs of m=12 copulas at default lam, values
    sat a median 11.9% above the exact optimum, against 0.08% run to
    convergence. A problem also stops, as stalled, after 5 residual checks
    without a 10% gain; that fires on slow convergence too, so its residual
    can stay above tol. The polytope rounding restores exact plan marginals
    either way, so returned values are always feasible-plan costs.
    """

    lam: float
    max_iter: int = 10000
    tol: float = 1e-4

    def __post_init__(self):
        # an infinite lam would make _anneal_schedule append inf forever
        if not 0 < self.lam < np.inf:
            raise InvalidParameter(f"lam must be positive and finite, got {self.lam}")
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
        k = _kernel(self._log_kernel())
        row = np.exp(self.log_u + _log_kernel_apply(k, self.log_v))
        col = np.exp(self.log_v + _log_kernel_apply(k, self.log_u))
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


_UNDERFLOW = 1e-250  # shifted products below this are recomputed exactly
_TINY = np.finfo(float).tiny  # smallest normal float64; kernel entries below it are flushed
_EXP_FLOOR = -700.0  # fallback exponents are clamped here, where exp is still normal


class _Kernel(NamedTuple):
    """A one-axis log kernel lk and its exponential ek, whose subnormal
    entries are set to 0. ek is read-only: every application shares it."""

    lk: np.ndarray
    ek: np.ndarray


def _kernel(lk: np.ndarray) -> _Kernel:
    """The record for log kernel lk. The scaling loop applies one kernel
    thousands of times, so its caller builds the record once and passes it."""
    ek = np.exp(lk)
    ek[ek < _TINY] = 0.0
    ek.flags.writeable = False
    return _Kernel(lk, ek)


def _lse_contract(k: _Kernel, lw: np.ndarray) -> np.ndarray:
    """out[..., i, q] = LSE_j (lw[..., i, j] + k.lk[j, q]) for a symmetric k.lk <= 0."""
    m = lw.shape[-1]
    # numpy reduces along short rows slowly, so both maxima here reduce a
    # transposed copy; a max has the same bits in any order
    s = np.ascontiguousarray(lw.reshape(-1, m).T).max(axis=0).reshape(*lw.shape[:-1], 1)
    finite = np.isfinite(s)
    s = np.where(finite, s, 0.0)
    prod = np.exp(lw - s) @ k.ek
    low = prod < _UNDERFLOW
    out = np.log(prod, out=prod)
    out += s
    if not low.any():
        return out
    # an all -inf row already gives -inf and needs no recomputation
    redo = np.flatnonzero(low & finite)
    a = lw.reshape(-1, m)[redo // m]
    a += k.lk[redo % m]
    terms = np.ascontiguousarray(a.T)
    amax = terms.max(axis=0)
    terms -= amax
    # Every sum holds exp(0) = 1, so clamped terms (below 1e-304) are lost
    # to rounding as the exact ones would be. fmax maps the NaN of an all
    # -inf row (-inf - -inf) to the floor, and amax keeps that row -inf.
    np.fmax(terms, _EXP_FLOOR, out=terms)
    np.exp(terms, out=terms)
    # the sum must run along contiguous rows: numpy sums those pairwise, and
    # the bits depend on that order
    out.reshape(-1)[redo] = np.log(np.ascontiguousarray(terms.T).sum(axis=-1)) + amax
    return out


def _log_kernel_apply(k: _Kernel, lw: np.ndarray,
                      k_first: _Kernel | None = None) -> np.ndarray:
    """out[..., p, q] = LSE_{p', q'} (lk1[p, p'] + lk[q, q'] + lw[..., p', q']).

    lk is k.lk, and lk1 is k_first.lk when given, else lk; both must be
    symmetric and <= 0. A separate first-axis kernel lets `_plan_value_log`
    weight one axis of the kernel by its cost.

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

    Numbers below float64's normal range take slow paths in both numpy's
    exp and the BLAS kernels: subnormal kernel entries made a 6-problem
    matmul at m=24 7 to 20 times slower, and a subnormal exp result costs
    about 100 times a normal one. So exp(lk) is built once per kernel by
    `_kernel`, with its subnormal entries set to 0. That is exact
    by the same argument: each dropped term is below 2.2e-308, and products
    under 1e-250 are redone from lk itself. The fallback clamps its shifted
    exponents at -700, which is exact because each of its sums holds a term
    equal to 1. The main path is not clamped: that would turn exact zero
    weights into about 1e-304, whose products with the kernel are subnormal
    again.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = _lse_contract(k, np.ascontiguousarray(lw))  # (..., p', q)
        outer = _lse_contract(k if k_first is None else k_first,
                              np.ascontiguousarray(np.swapaxes(inner, -1, -2)))  # (..., q, p)
    return np.ascontiguousarray(np.swapaxes(outer, -1, -2))


def _plan_value_log(axis_cost: np.ndarray, k: _Kernel,
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
        kc = _kernel(k.lk + np.log(axis_cost))  # -inf on the zero-cost diagonal
    shift = 0.5 * (np.max(lu, axis=(-2, -1), keepdims=True)
                   - np.max(lv, axis=(-2, -1), keepdims=True))
    lu, lv = lu - shift, lv + shift
    weighted = (np.exp(lu + _log_kernel_apply(k, lv, k_first=kc))
                + np.exp(lu + _log_kernel_apply(kc, lv, k_first=k)))
    return np.sum(weighted, axis=(-2, -1))


def _safe_log(a: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(a)


def _round_to_polytope(k, lr, lc, R, C, lu, lv):
    """Project the factored plan onto the transportation polytope.

    Scales rows then columns down to never exceed their targets, and closes
    the remaining mass deficit with a rank-one term. The result has exact
    marginals, so its cost is a true upper bound on the transport optimum
    regardless of where the iterations stopped. Returns adjusted potentials
    plus the deficit grids (err_r, err_c).
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        row = np.exp(lu + _log_kernel_apply(k, lv))
        lu = lu + np.minimum(lr - _safe_log(row), 0.0)
        lu = np.where(np.isnan(lu), -np.inf, lu)
        klu = _log_kernel_apply(k, lu)
        col = np.exp(lv + klu)
        lv = lv + np.minimum(lc - _safe_log(col), 0.0)
        lv = np.where(np.isnan(lv), -np.inf, lv)
    err_r = np.clip(R - np.exp(lu + _log_kernel_apply(k, lv)), 0.0, None)
    err_c = np.clip(C - np.exp(lv + klu), 0.0, None)
    return lu, lv, err_r, err_c


def _rank_one_cost(axis_cost, err_r, err_c):
    """<outer(err_r, err_c) / sum(err_r), M> for the separable squared cost; sum(err_r) > 0."""
    s = err_r.sum()
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
    large-support deficits fall back to the rank-one coupling. That coarser
    routing costs accuracy. On a power-study probe at m=12, 24 of 168
    deficits exceeded _CLOSURE_LP_LIMIT; closed rank-one, they put the p90
    excess over the exact optimum at 15.3%, against 7.2% when every deficit
    was closed by transport. Closing every deficit rank-one raised the
    power-m12 benchmark's mean excess over exact from 6.14e-4 to 9.40e-4
    (+53%).
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


# -inf potentials outside the support make NaN in the relaxation combination,
# which np.where masks back to -inf at once
@np.errstate(invalid="ignore")
def _scaling_loop(k, lr, lc, R, C, tol, max_iter, lu, lv):
    """Over-relaxed scaling updates with per-problem stopping.

    Over-relaxation keeps the plain Sinkhorn fixed point but contracts much
    faster in the sharp-kernel regime; where the residual stops improving the
    relaxation factor is walked back toward plain updates. Cells with zero
    mass keep their potentials pinned at -inf, outside the relaxation
    combination. Each iteration applies the kernel to the new lu and the new
    lv, and the residual check and the next u half-step reuse both, so a
    call makes 1 + 2 * iterations applications.

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
    klv = _log_kernel_apply(k, lv)
    for it in range(1, max_iter + 1):
        lu = np.where(sup_r, (1.0 - theta) * lu + theta * (lr - klv), neg_inf)
        klu = _log_kernel_apply(k, lu)
        lv = np.where(sup_c, (1.0 - theta) * lv + theta * (lc - klu), neg_inf)
        klv = _log_kernel_apply(k, lv)
        if it % _CHECK_EVERY == 0 or it == max_iter:
            res = np.maximum(
                np.abs(np.exp(lu + klv) - R).max(axis=(-2, -1)),
                np.abs(np.exp(lv + klu) - C).max(axis=(-2, -1)),
            )
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
                sup_r, sup_c, theta, klv = sup_r[keep], sup_c[keep], theta[keep], klv[keep]
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
    problem stops on its own rule, so batching never changes results. The
    final plan is rounded onto the polytope, making the returned values
    costs of exactly feasible plans. A problem fails when its residual is
    not below cfg.tol, NaN included, unless it stalled.
    """
    swap = _lex_swap_mask(R, C)[:, None, None]
    R, C = np.where(swap, C, R), np.where(swap, R, C)
    lr = _safe_log(R)
    lc = _safe_log(C)
    lv = np.zeros_like(C)
    lu = np.zeros_like(R)
    schedule = _anneal_schedule(cfg.lam, cost.m)
    total_iters = 0
    for stage, lam_s in enumerate(schedule):
        k = _kernel(-lam_s * cost.axis_cost)
        last = stage == len(schedule) - 1
        if last:
            tol, budget = cfg.tol, max(cfg.max_iter - total_iters, 1)
        else:
            tol, budget = max(cfg.tol, 1e-4), min(1000, cfg.max_iter)
        lu, lv, residuals, it, stalled = _scaling_loop(k, lr, lc, R, C, tol, budget, lu, lv)
        total_iters += it
        if not last:
            ratio = schedule[stage + 1] / lam_s
            lu = lu * ratio
            lv = lv * ratio
    # k is now the last stage's kernel, whose sharpness is cfg.lam
    # not `>=`, so that a NaN residual fails too
    failed = ~(residuals < cfg.tol) & ~stalled
    if np.any(failed):
        values = _plan_value_log(cost.axis_cost, k, lu, lv)
        worst = float(residuals[failed].max())
        raise ConvergenceFailure(
            f"sinkhorn residual {worst:.3e} >= tol {cfg.tol:.1e} after "
            f"{total_iters} iterations (lam={cfg.lam:g})",
            residual=worst,
            value=float(values[0]) if len(values) == 1 else values.tolist(),
            pair=tuple(int(b) for b in np.flatnonzero(failed)),
        )
    lu, lv, err_r, err_c = _round_to_polytope(k, lr, lc, R, C, lu, lv)
    values = _plan_value_log(cost.axis_cost, k, lu, lv)
    corrections = []
    for b in range(R.shape[0]):
        try:
            extra, corr = _close_deficit(err_r[b], err_c[b], cost.m)
        except ConvergenceFailure as exc:
            exc.pair = (b,)
            raise
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

    k = _kernel(-cfg.lam * cost.axis_cost)
    la = _safe_log(np.stack([h.mass for h in hists]))  # (n, m, m)
    lu = np.zeros_like(la)
    mu = np.full((cost.m, cost.m), 1.0 / (cost.m * cost.m))
    residual = np.inf
    for it in range(1, cfg.max_iter + 1):
        lv = la - _log_kernel_apply(k, lu)
        lkv = _log_kernel_apply(k, lv)
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


def _lp_options(**values):
    """HighsOptions as linprog(method="highs") sets them: dual simplex and no
    output, plus `values`."""
    options = _highs.HighsOptions()
    options.highs_debug_level = int(_highs.HighsDebugLevel.kHighsDebugLevelNone)
    options.log_to_console = options.output_flag = False
    options.simplex_strategy = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    for name, value in values.items():
        setattr(options, name, value)
    return options


_LP_OPTIONS = {  # keyed by `tight`, with linprog's options for each
    False: _lp_options(presolve="off"),
    True: _lp_options(presolve="on", primal_feasibility_tolerance=1e-10,
                      dual_feasibility_tolerance=1e-10),
}


def _transport_lp(sub_cost: np.ndarray, r_sup: np.ndarray, c_sup: np.ndarray,
                  tight: bool = True):
    """Solve min <P, sub_cost> over plans with the given support marginals.

    The last column-sum constraint is implied by the others and dropped, which
    also absorbs float-level mismatch between sum(r_sup) and sum(c_sup). The
    tight tolerances serve the oracle; they must not be used on problems whose
    marginal entries approach 1e-10, where presolve reads them as zero.
    Presolve is off for the loose LP, the deficit closure: on supports whose
    normalized masses fall to about 1e-9 it declared such feasible LPs
    infeasible.

    The LP goes to HiGHS's dual simplex through scipy's bundled binding, with
    the model and options linprog(method="highs") would pass, and only the
    plan and its cost are read back. linprog's own wrapping (input cleaning,
    a sparse round trip, option checks, and a Python loop over every column
    for bound duals) took about half of each closure LP's time. Plans and
    costs are bit for bit linprog's, which
    `test_transport_lp_matches_linprog_bitwise` checks with linprog itself.
    """
    n_r, n_c = sub_cost.shape
    n = n_r * n_c
    # Built directly in CSC, the layout HiGHS takes: the column of plan entry
    # (i, j), variable i * n_c + j, holds a 1 in row-sum row i and, unless j
    # is the dropped last column, a 1 in column-sum row n_r + j.
    i, j = np.divmod(np.arange(n), n_c)
    has_col = j < n_c - 1
    indptr = np.concatenate([[0], np.cumsum(1 + has_col)])
    indices = np.empty(indptr[-1], dtype=np.intp)
    indices[indptr[:-1]] = i
    indices[indptr[:-1][has_col] + 1] = n_r + j[has_col]
    b_eq = np.concatenate([r_sup, c_sup[:-1]])
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = n_r + n_c - 1
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    # The binding copies most fields element by element, and from a list
    # faster than from an array: 2 times for start_ and index_, 10 times for
    # a list that repeats one value.
    lp.a_matrix_.start_ = indptr.tolist()
    lp.a_matrix_.index_ = indices.tolist()
    lp.a_matrix_.value_ = [1.0] * indices.size
    lp.col_cost_ = sub_cost.ravel()
    lp.col_lower_ = [0.0] * n
    lp.col_upper_ = [_highs.kHighsInf] * n
    lp.row_lower_ = lp.row_upper_ = b_eq
    highs = _highs._Highs()
    highs.passOptions(_LP_OPTIONS[tight])
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    # equal totals and no upper bounds: only a solver fault or a negative
    # mass lands here
    if status != _highs.HighsModelStatus.kOptimal:
        raise ConvergenceFailure(f"transport LP failed: {highs.modelStatusToString(status)}")
    plan = np.array(highs.getSolution().col_value).reshape(n_r, n_c)
    return float(highs.getInfo().objective_function_value), plan


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
