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
about half of each closure LP's time (see `_transport_lp`). A batch's
closure LPs run side by side on up to one thread per usable CPU, the
calling thread included (see `_close_deficits`): HiGHS releases the GIL
while it solves, and each LP is a pure function of its own deficit on its
own HiGHS instance, so the thread count and the schedule change no bit.
Closure only adds a nonnegative cost to a problem's rounded plan cost, so
that pre-closure cost is a lower bound on its value. A caller that needs
only the minimum of each group of problems (`sinkhorn_values_screened`)
has a deficit closed only where its problem can still be its group's
minimum, and every minimum keeps its bits (see `_sinkhorn_many`). Failures
are per problem: a failed problem's value is NaN, a screened-out problem's
is +inf, and every other value has the bits it would have in a batch where
nothing fails; each entry point raises one ConvergenceFailure per call.

Every bit guarantee here (a result does not depend on its batch mates,
argument order, thread count or chunking) holds on one numpy build and one
CPU dispatch, not across them: numpy picks its exp and log kernels by CPU
feature at import. With numpy 2.4.6 on an AVX-512 x86-64 host, switching
off its X86_V4 dispatch (NPY_DISABLE_CPU_FEATURES) changed every entry of
an 8-variable `dist` matrix at m=16, by up to 7.7e-13 relative.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as _highs

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
    "wasserstein_barycenter",
]

_CHECK_EVERY = 10   # marginal residual is evaluated every this many iterations
_SOR_THETA = 1.7    # over-relaxation factor for the scaling updates (in (1, 2))
_BATCH_CHUNK = 64   # problems per engine call; caps its (B, m, m) state whatever the batch size
_SCALING = "scaling"  # the failure reason of a problem whose residual stayed at or above tol


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


@dataclass(frozen=True)
class SinkhornConfig:
    """Controls for the scaling iterations.

    lam is the sharpness of the dual form: the plan solves
    min <P, M> - h(P)/lam over the transportation polytope. Larger lam means
    closer to the exact optimum and slower convergence. max_iter is each
    problem's own iteration budget over all anneal stages: each stage runs
    at most what the problem has left of it, a warm-up stage at most 1000,
    so a slow batch mate never shortens it. A problem that spends it before
    the last stage runs no later stage and fails, with residual inf, since
    it was never solved at lam. tol is the iteration target for the L-inf
    marginal violation. The 1e-4 default stops short of the entropic
    optimum: on 40 pairs of m=12 copulas at default lam, values sat a median
    11.9% above the exact optimum, against 0.08% run to convergence. A
    problem also stops, as stalled, after 5 residual checks without a 10%
    gain; that fires on slow convergence too, so its residual can stay
    above tol. The polytope rounding restores exact plan marginals
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
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise InvalidParameter(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class TransportPlan:
    """Entropic plan rounded onto the transportation polytope, in stored form.

    The m^2-by-m^2 plan is P = diag(exp(log_u)) K diag(exp(log_v)), with K
    the Gibbs kernel exp(-lam * cost) over flat indices p * m + q, plus a
    feasibility correction that gives the plan exact marginals even when the
    scaling iterations stopped at a finite residual. With `correction` None
    it is the rank-one term outer(err_r, err_c) / sum(err_r); otherwise it
    is the closure LP's plan `small_plan` over the deficit cells idx_r
    (source) and idx_c (destination). Only the solver writes this form and
    the library never materializes the plan; tests/ does, as an oracle.
    """

    m: int
    lam: float
    log_u: np.ndarray   # (m, m) grid over the source cells
    log_v: np.ndarray   # (m, m) grid over the destination cells
    err_r: np.ndarray   # (m, m) leftover source mass closed by the correction
    err_c: np.ndarray   # (m, m) leftover destination mass
    correction: tuple | None = None  # (idx_r, idx_c, small_plan) or None for rank-one


_UNDERFLOW = 1e-250  # shifted products below this are recomputed exactly
_TINY = np.finfo(float).tiny  # smallest normal float64; kernel entries below it are flushed
_EXP_FLOOR = -700.0  # fallback exponents are clamped here, where exp is still normal
_NEG_MAX = -np.finfo(float).max  # the shift of an all -inf row


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
    # transposed copy; a max has the same bits in any order. An all -inf row
    # is shifted by -DBL_MAX, not by its max: exp(-inf + DBL_MAX) is exactly
    # 0 and log(0) - DBL_MAX is -inf, so the main path needs no mask. This
    # is not a clamp of the weights: every other row keeps its own max, and
    # a zero weight stays an exact zero.
    s = np.ascontiguousarray(lw.reshape(-1, m).T).max(axis=0).reshape(*lw.shape[:-1], 1)
    np.fmax(s, _NEG_MAX, out=s)
    prod = np.exp(lw - s) @ k.ek
    low = prod < _UNDERFLOW
    out = np.log(prod, out=prod)
    out += s
    if low.any():
        # an all -inf row (shifted by -DBL_MAX) is already -inf; redoing it only costs time
        r, q = np.nonzero(low.reshape(-1, m) & (s.reshape(-1, 1) > _NEG_MAX))
        a = lw.reshape(-1, m)[r]
        a += k.lk[q]
        terms = np.ascontiguousarray(a.T)
        amax = terms.max(axis=0)
        terms -= amax
        # Every sum holds exp(0) = 1, so clamped terms (below 1e-304) are lost
        # to rounding as the exact ones would be. A gathered row is all -inf
        # where a cost-weighted kernel's -inf diagonal meets a lone finite
        # weight: fmax maps its NaN (-inf - -inf) to the floor, and amax
        # keeps that entry -inf.
        np.fmax(terms, _EXP_FLOOR, out=terms)
        np.exp(terms, out=terms)
        # the sum must run along contiguous rows: numpy sums those pairwise, and
        # the bits depend on that order
        out.reshape(-1, m)[r, q] = np.log(np.ascontiguousarray(terms.T).sum(axis=-1)) + amax
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

    A row holding NaN gives NaN throughout its slice, as the exact LSE does.
    Its max is NaN, so it takes the -DBL_MAX shift of an empty row and its
    finite entries overflow in exp; hence "over" is silenced with the rest.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    kc = _kernel(k.lk + _safe_log(axis_cost))  # -inf on the zero-cost diagonal
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
    """Scale the factored plan down into the transportation polytope.

    Scales rows then columns down to never exceed their targets, and returns
    the adjusted potentials plus the mass still missing from each marginal,
    the deficit grids (err_r, err_c). `_close_deficits` routes that deficit
    (left as it is at noise level, else rank-one or by LP), and the closed
    plan has exact marginals, so its cost is a true upper bound on the
    transport optimum regardless of where the iterations stopped.

    A scale factor lr - log(row) is NaN (-inf - -inf) only at a cell
    outside the support, where the target and the row sum are both zero;
    the scaling loop has already set that cell's potential to -inf. fmin
    takes 0 over the NaN, so the potential stays -inf there.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        row = np.exp(lu + _log_kernel_apply(k, lv))
        lu = lu + np.fmin(lr - _safe_log(row), 0.0)
        klu = _log_kernel_apply(k, lu)
        col = np.exp(lv + klu)
        lv = lv + np.fmin(lc - _safe_log(col), 0.0)
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


def _lp_closure(err_r, err_c, s_r, idx_r, idx_c, m):
    """(cost, (idx_r, idx_c, small_plan)): the deficit of total s_r routed
    optimally from the cells idx_r to the cells idx_c."""
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _close_deficits(err_r: np.ndarray, err_c: np.ndarray, m: int) -> list:
    """(cost, correction, reason) closing each problem's rounding deficit, in problem order.

    err_r and err_c have shape (B, m, m). Small deficits are closed
    optimally with a tiny transport LP over their support cells, whose plan
    is then rounded to exact marginals; large-support deficits fall back to
    the rank-one coupling, with correction None. That coarser routing costs
    accuracy. On a power-study probe at m=12, 24 of 168 deficits exceeded
    _CLOSURE_LP_LIMIT; closed rank-one, they put the p90 excess over the
    exact optimum at 15.3%, against 7.2% when every deficit was closed by
    transport. Closing every deficit rank-one raised the power-m12
    benchmark's mean excess over exact from 6.14e-4 to 9.40e-4 (+53%).

    The LPs wait in one work list and run side by side: HiGHS releases the
    GIL while it solves, and each LP is a pure function of its own deficit,
    solved on its own HiGHS instance, so neither the thread count nor the
    schedule moves a bit. With n LPs, min(usable CPUs, n) - 1 helper threads
    take them from the front of the list and the calling thread from the
    back; a deque's pops are thread-safe, so each LP is taken once. A caller
    that only waited saved less on the LPs than it lost in the numpy work
    after each wait. One CPU, or fewer than two LPs, starts no thread.

    reason is None, and correction None for a deficit left at noise level
    (cost 0) or closed rank-one. Every LP runs even when one fails; a failed
    LP's entry is (nan, None, its message), so its problem's value is NaN.
    """
    results = []
    todo = deque()
    for b, (er, ec) in enumerate(zip(err_r, err_c)):
        s_r = er.sum()
        s_c = ec.sum()
        # The two deficits agree up to float rounding; once either is at
        # noise level the plan is already feasible to that level and closure
        # would just amplify rounding junk.
        if s_r <= 1e-12 or s_c <= 1e-12:
            results.append((0.0, None, None))
            continue
        # Support cells carrying under a billionth of the deficit are
        # rounding noise: pruning them keeps the LP well-scaled at no
        # meaningful cost to the restored marginals.
        idx_r = np.flatnonzero(er.ravel() > 1e-9 * s_r)
        idx_c = np.flatnonzero(ec.ravel() > 1e-9 * s_c)
        if idx_r.size * idx_c.size > _CLOSURE_LP_LIMIT:
            results.append((_rank_one_cost(GroundCost(m).axis_cost, er, ec), None, None))
        else:
            results.append(None)
            todo.append((b, er, ec, s_r, idx_r, idx_c))

    def work(take):
        while True:
            try:
                b, *lp = take()
            except IndexError:  # the list is empty
                return
            try:
                results[b] = (*_lp_closure(*lp, m), None)
            except ConvergenceFailure as exc:
                results[b] = (np.nan, None, str(exc))

    helpers = min(_usable_cpus(), len(todo)) - 1
    # an executor starts its threads on submit, so without helpers it starts none
    with ThreadPoolExecutor(max(helpers, 1)) as pool:
        tasks = [pool.submit(work, todo.popleft) for _ in range(helpers)]
        work(todo.pop)
        for task in tasks:
            task.result()
    return results


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
def _scaling_loop(k, lr, lc, R, C, tol, budget, out_lu, out_lv):
    """Over-relaxed scaling updates with per-problem stopping.

    Over-relaxation keeps the plain Sinkhorn fixed point but contracts much
    faster in the sharp-kernel regime; where the residual stops improving the
    relaxation factor is walked back toward plain updates. Cells with zero
    mass keep their potentials pinned at -inf, outside the relaxation
    combination. Each iteration applies the kernel to the new lu and the new
    lv, and the residual check and the next u half-step reuse both, so a
    call makes 1 + 2 * (largest iteration count) applications.

    The updates are elementwise-independent across the batch, and every
    problem freezes its potentials the moment its own stopping rule fires,
    so each result is a pure function of its own inputs, never of its batch
    mates. `budget` is each problem's own iteration cap, an int or a (B,)
    array. A problem checks its residual every _CHECK_EVERY iterations and
    at its own cap, never at a batch mate's, and freezes when its residual
    is below tol, at its cap, or as stalled after 5 checks in a row at
    plain updates without a 10% gain on its best residual. That rule also
    fires on slow convergence, so a stalled problem can freeze well above
    tol. A problem whose cap is 0 runs nothing: it keeps the potentials it
    came with, residual inf, 0 iterations, not stalled. The open problems
    live in one record `s`, whose every field is a per-problem array with
    one entry per open problem: their copied rows of the inputs, their
    caps, supports, relaxation factors, best residuals, stall counts and
    the cached kernel application to lv, plus `row`, each one's batch
    position. At a residual check where some problem froze, its results
    are written into out_lu, out_lv (in place), residuals, iterations and
    stalled, and one statement drops it from every field, so later
    iterations touch only the problems still open; a new per-problem
    array is one more field. Returns (out_lu, out_lv, residuals,
    iterations, stalled), each per problem.
    """
    B = R.shape[0]
    residuals = np.full(B, np.inf)
    iters = np.zeros(B, dtype=int)
    stalled = np.zeros(B, dtype=bool)
    cap = np.broadcast_to(budget, (B,))
    row = np.flatnonzero(cap > 0)
    if not row.size:
        return out_lu, out_lv, residuals, iters, stalled
    s = SimpleNamespace(row=row, lu=out_lu[row], lv=out_lv[row], lr=lr[row], lc=lc[row],
                        R=R[row], C=C[row], cap=cap[row], sup_r=np.isfinite(lr[row]),
                        sup_c=np.isfinite(lc[row]), theta=np.full((row.size, 1, 1), _SOR_THETA),
                        best=np.full(row.size, np.inf), stagnant=np.zeros(row.size, dtype=int))
    s.klv = _log_kernel_apply(k, s.lv)
    neg_inf = np.float64(-np.inf)
    next_cap = s.cap.min()  # the smallest cap still open
    for it in range(1, s.cap.max() + 1):
        s.lu = np.where(s.sup_r, (1.0 - s.theta) * s.lu + s.theta * (s.lr - s.klv), neg_inf)
        klu = _log_kernel_apply(k, s.lu)
        s.lv = np.where(s.sup_c, (1.0 - s.theta) * s.lv + s.theta * (s.lc - klu), neg_inf)
        s.klv = _log_kernel_apply(k, s.lv)
        if it % _CHECK_EVERY == 0 or it == next_cap:
            at_cap = s.cap == it
            check = at_cap | (it % _CHECK_EVERY == 0)
            res = np.maximum(
                np.abs(np.exp(s.lu + s.klv) - s.R).max(axis=(-2, -1)),
                np.abs(np.exp(s.lv + klu) - s.C).max(axis=(-2, -1)),
            )
            converged = check & (res < tol)
            no_gain = check & ~converged & (res > 0.9 * s.best)
            improving = check & ~converged & ~no_gain
            theta = s.theta[:, 0, 0]  # a view: assigning into it updates s.theta
            hot = theta > 1.0
            theta[:] = np.where(no_gain & hot, np.maximum(1.0, theta - 0.35), theta)
            s.stagnant = np.where(no_gain & ~hot, s.stagnant + 1, s.stagnant)
            s.stagnant[improving] = 0
            s.best = np.where(check, np.minimum(s.best, res), s.best)
            newly_stalled = s.stagnant >= 5
            freeze = converged | newly_stalled | at_cap
            if freeze.any():
                done = s.row[freeze]
                out_lu[done], out_lv[done], residuals[done], iters[done], stalled[done] = (
                    s.lu[freeze], s.lv[freeze], res[freeze], it, newly_stalled[freeze])
                keep = ~freeze
                if not keep.any():
                    break
                s = SimpleNamespace(**{name: a[keep] for name, a in vars(s).items()})
                next_cap = s.cap.min()
    return out_lu, out_lv, residuals, iters, stalled


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


class _Solves(NamedTuple):
    """`_sinkhorn_many`'s results, one entry per problem, in problem order.

    Values, iteration counts, residuals and reasons do not depend on the
    order of a problem's two histograms. The plan fields are in the engine's
    canonical orientation (see `_lex_swap_mask`): where swap is True they
    describe the problem (C, R), not the caller's (R, C).
    `sinkhorn_distance`, the one reader of plans, turns them back.
    """

    values: np.ndarray      # (B,)
    log_u: np.ndarray       # (B, m, m) rounded potentials
    log_v: np.ndarray
    err_r: np.ndarray       # (B, m, m) rounding deficits
    err_c: np.ndarray
    corrections: list       # closure LP plans (see TransportPlan), None where there is none
    swap: np.ndarray        # (B,) bool: the plan fields describe (C, R)
    iters: np.ndarray       # (B,) iterations over all anneal stages
    residuals: np.ndarray   # (B,) last marginal residual at cfg.lam, inf if never run there
    reasons: np.ndarray     # (B,) object: None, or why the problem failed


def _sinkhorn_many(R: np.ndarray, C: np.ndarray, cost: GroundCost, cfg: SinkhornConfig,
                   group=None) -> _Solves:
    """Batched scaling iterations with sharpness annealing.

    R, C have shape (B, m, m). Warm-starting through the sharpness ramp
    changes nothing about the fixed point at cfg.lam; it only accelerates
    convergence, and the schedule is a pure function of (lam, m). Every
    problem stops on its own rule and within its own budget of cfg.max_iter
    iterations over all stages (see SinkhornConfig). The final plan is
    rounded onto the polytope, making the returned values costs of exactly
    feasible plans.

    The rounded plan's deficits are closed by `_close_deficits`, whose LPs
    run on several threads; each is a pure function of its own problem's
    deficit, so the thread count moves no bit either. `group` holds a
    group id per problem (default: each problem its own group), and a
    deficit is closed only where its problem can still be its group's
    minimum, in two waves. The first closes each group's problem of lowest
    pre-closure cost pv, ties to the lowest position; the second closes
    every other problem whose pv is not above its group's first-wave value.
    The rest are screened out, unclosed. Why the minimum keeps its bits: a
    closure cost e is >= 0 (LP, rank-one or the noise-level 0), so a closed
    value fl(pv + e) is at least pv, and a problem is skipped only when pv
    exceeds a closed value of its group, so its own value would have been
    strictly above the minimum.

    Nothing raises. A problem fails when its residual is not below cfg.tol,
    NaN included, and it did not stall (reason _SCALING), or when its
    closure LP fails (reason: its message). Failed problems join neither
    wave, and a group whose first-wave closure failed skips nothing. A
    failed problem's value is NaN, a screened-out problem's is +inf, and
    every other value has the bits it would have in a batch where nothing
    fails.
    """
    swap = _lex_swap_mask(R, C)
    R, C = np.where(swap[:, None, None], C, R), np.where(swap[:, None, None], R, C)
    lr = _safe_log(R)
    lc = _safe_log(C)
    lv = np.zeros_like(C)
    lu = np.zeros_like(R)
    schedule = _anneal_schedule(cfg.lam, cost.m)
    iters = np.zeros(len(R), dtype=int)  # over all stages
    for stage, lam_s in enumerate(schedule):
        k = _kernel(-lam_s * cost.axis_cost)
        last = stage == len(schedule) - 1
        left = cfg.max_iter - iters
        tol, budget = (cfg.tol, left) if last else (max(cfg.tol, 1e-4), np.minimum(left, 1000))
        # a problem whose budget is spent runs no later stage: it ends with
        # residual inf at cfg.lam, so it fails
        lu, lv, residuals, spent, stalled = _scaling_loop(k, lr, lc, R, C, tol, budget, lu, lv)
        iters += spent
        if not last:
            ratio = schedule[stage + 1] / lam_s
            lu = lu * ratio
            lv = lv * ratio
    # k is now the last stage's kernel, whose sharpness is cfg.lam
    # not `>=`, so that a NaN residual fails too
    failed = ~(residuals < cfg.tol) & ~stalled
    reasons = np.where(failed, _SCALING, None)
    lu, lv, err_r, err_c = _round_to_polytope(k, lr, lc, R, C, lu, lv)
    values = _plan_value_log(cost.axis_cost, k, lu, lv)  # pre-closure costs
    values[failed] = np.nan
    corrections = [None] * len(R)

    def close(wave):
        closures = _close_deficits(err_r[wave], err_c[wave], cost.m)
        for b, (extra, correction, reason) in zip(wave, closures):
            values[b] += extra  # NaN where the LP failed
            corrections[b], reasons[b] = correction, reason

    _, g = np.unique(np.arange(len(R)) if group is None else group, return_inverse=True)
    order = np.lexsort((values, g))  # stable: ties stay in problem order, NaN sorts last
    lead = order[np.diff(g[order], prepend=-1) != 0]  # lead[j] opens group j
    close(lead[~failed[lead]])
    # a NaN lead, all failed or its closure failed, compares False: that group skips nothing
    skip = values > values[lead][g]
    rest = ~skip & ~failed
    rest[lead] = False
    close(np.flatnonzero(rest))
    values[skip] = np.inf
    return _Solves(values, lu, lv, err_r, err_c, corrections, swap, iters, residuals, reasons)


def _raise_failures(values, residuals, iters, reasons, cfg: SinkhornConfig):
    """Raise one ConvergenceFailure for `_Solves` fields over a whole call, if
    any problem failed. Its message has one clause for all scaling failures,
    then each distinct closure-LP message, so it does not grow with their count."""
    failed = np.flatnonzero(np.not_equal(reasons, None))
    if not failed.size:
        return
    scaling = reasons == _SCALING
    residual = float(residuals[scaling].max()) if scaling.any() else None
    clauses = list(dict.fromkeys(why for why in reasons[failed] if why != _SCALING))
    if scaling.any():
        counts = ", ".join(map(str, np.unique(iters[scaling])))
        clauses.insert(0, f"sinkhorn residual {residual:.3e} >= tol {cfg.tol:.1e} after "
                          f"{counts} iterations (lam={cfg.lam:g})")
    raise ConvergenceFailure("; ".join(clauses), residual=residual, value=values,
                             pair=tuple(failed.tolist()))


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
    out = _sinkhorn_many(r.mass[None, :, :], c.mass[None, :, :], cost, cfg)
    _raise_failures(out.values, out.residuals, out.iters, out.reasons, cfg)
    lu, lv, err_r, err_c = out.log_u[0], out.log_v[0], out.err_r[0], out.err_c[0]
    corr = out.corrections[0]
    if out.swap[0]:  # the engine solved (c, r): turn the plan back to (r, c)
        lu, lv, err_r, err_c = lv, lu, err_c, err_r
        corr = (corr[1], corr[0], corr[2].T) if corr else None
    plan = TransportPlan(cost.m, cfg.lam, lu, lv, err_r, err_c, corr)
    return float(out.values[0]), plan, int(out.iters[0])


def sinkhorn_values_batch(rs, cs, cost: GroundCost, cfg: SinkhornConfig) -> np.ndarray:
    """Dual-Sinkhorn values for aligned lists of histograms.

    Takes any number of problems and hands them to the engine in chunks of
    _BATCH_CHUNK. Each value is a pure function of its own pair, so neither
    the chunking nor the batch mates change a bit of it, failures included.
    Every chunk runs; then one ConvergenceFailure names the positions of
    all failed problems in `.pair`, and its `.value` has NaN at them and
    the bits of a batch where nothing fails everywhere else.
    """
    return sinkhorn_values_screened(rs, cs, cost, cfg, groups=np.arange(len(rs)))


def sinkhorn_values_screened(rs, cs, cost: GroundCost, cfg: SinkhornConfig, *,
                             groups) -> np.ndarray:
    """`sinkhorn_values_batch`'s values where they can be their group's minimum.

    groups[i] is problem i's group id. Every problem is solved, but a
    rounding deficit is closed only where its problem can still be its
    group's minimum (see `_sinkhorn_many`). So each group's minimum, and
    every value equal to it, keeps `sinkhorn_values_batch`'s bits. A group
    may straddle chunks: the minimum of each part is exact, so the group's
    is too. In the values, or in the one ConvergenceFailure's `.value`, a
    failed problem's entry is NaN, a screened-out one's is +inf, and every
    other entry has the bits it would have in a batch where nothing fails.
    With every problem its own group, nothing is screened out: that is
    `sinkhorn_values_batch`.
    """
    groups = np.asarray(groups)
    if groups.shape != (len(rs),):
        raise InvalidData(f"need one group id per problem, got {groups.shape} for {len(rs)}")
    if not rs:
        raise InvalidData("need at least one histogram")
    if len(rs) != len(cs):
        raise InvalidData("need equally many source and destination histograms")
    for r, c in zip(rs, cs):
        _check_pair(r, c, cost)
    parts = []
    for start in range(0, len(rs), _BATCH_CHUNK):
        chunk = slice(start, start + _BATCH_CHUNK)
        R = np.stack([h.mass for h in rs[chunk]])
        C = np.stack([h.mass for h in cs[chunk]])
        out = _sinkhorn_many(R, C, cost, cfg, groups[chunk])
        parts.append((out.values, out.residuals, out.iters, out.reasons))
    values, *record = (np.concatenate(field) for field in zip(*parts))
    _raise_failures(values, *record, cfg)
    return values


def _diagonal_cdfs(masses: np.ndarray) -> np.ndarray:
    """(B, 2, 2m - 1) cumulative mass of (B, m, m) grids along the u + v and
    u - v diagonals: every cell of a diagonal projects to the same point."""
    B, m, _ = masses.shape
    p, q = np.indices((m, m))
    spread = np.zeros((B, 2, m, 2 * m - 1))
    spread[:, 0, p, p + q] = masses
    spread[:, 1, p, p - q + m - 1] = masses
    return np.cumsum(spread.sum(axis=2), axis=-1)


def diagonal_lower_bound(rs, cs, cost: GroundCost) -> np.ndarray:
    """(len(rs), len(cs)) lower bounds on the exact transport optimum.

    Projecting both histograms onto a unit direction only shortens every
    move, so the squared 1-D W2 of the projections is at most the exact
    optimum (the sliced Wasserstein bound). The bound sums it over the two
    diagonal directions: they are orthonormal, so for any plan the two
    projected costs add up to its cost. The axis directions would add
    nothing, since a copula's margins are uniform. On each diagonal the
    2m - 1 points sit 1 / (sqrt(2) m) apart, and the 1-D optimum matches
    quantiles: between consecutive breakpoints of the two merged CDFs, each
    side's quantile is the number of its own CDF values below the
    breakpoint. Equal grids give exactly 0. A dual-Sinkhorn value is a
    feasible-plan cost and so at least this bound.
    """
    n = len(rs)
    cdf = _diagonal_cdfs(np.stack([h.mass for h in [*rs, *cs]]))
    a, b = np.broadcast_arrays(cdf[:n, None], cdf[None, n:])  # (n, c, 2, 2m - 1)
    points = a.shape[-1]
    merged = np.concatenate([a, b], axis=-1)
    order = np.argsort(merged, axis=-1, kind="stable")
    breaks = np.take_along_axis(merged, order, axis=-1)
    weight = np.diff(breaks, axis=-1, prepend=0.0)
    from_a = order < points
    # a CDF that ends below 1 by rounding would index past its last point
    qa = np.minimum(np.cumsum(from_a, axis=-1) - from_a, points - 1)
    qb = np.minimum(np.cumsum(~from_a, axis=-1) - ~from_a, points - 1)
    return np.sum(weight * (qa - qb) ** 2, axis=(-2, -1)) / (2 * cost.m * cost.m)


def pairwise_distance_matrix(hists, cost: GroundCost, cfg: SinkhornConfig) -> np.ndarray:
    """Symmetric matrix of dual-Sinkhorn values over all unordered pairs.

    The diagonal stores the entropic self-distance (not forced to zero).
    Evaluation order is fixed, so the output never depends on scheduling.
    A ConvergenceFailure lists the failing (i, j) pairs in `.pair`.
    """
    hists = list(hists)
    n = len(hists)
    iu, ju = np.triu_indices(n)
    try:
        values = sinkhorn_values_batch([hists[i] for i in iu], [hists[j] for j in ju], cost, cfg)
    except ConvergenceFailure as exc:
        exc.pair = tuple((int(iu[b]), int(ju[b])) for b in exc.pair)
        raise
    out = np.zeros((n, n))
    out[iu, ju] = out[ju, iu] = values
    return out


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) over every entry, with the bits of scipy 1.17's
    `scipy.special.logsumexp(a)` and without its array-API dispatch, which
    took about 7% of a k-means run at m=10.

    The entries equal to the max are counted, not summed: the rest are
    shifted by the max, exponentiated and summed in one pass, and the sum,
    when nonzero, is divided by the count, so the result is
    log1p(s) + log(count) + max. A non-finite result (an all -inf, +inf or
    NaN input) is replaced by the direct log(sum(exp(a))), as scipy does.
    """
    amax = a.max()
    top = a == amax
    count = np.count_nonzero(top)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(top, -np.inf, a) - amax))
        if s != 0.0:
            s = s / count
        out = np.log1p(s) + np.log(count) + amax
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
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
        lmu -= _logsumexp(lmu)
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


_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
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
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(1 + has_col, out=start[1:])
    index = np.empty(start[-1], dtype=np.int32)
    index[start[:-1]] = i
    index[start[:-1][has_col] + 1] = n_r + j[has_col]
    b_eq = np.concatenate([r_sup, c_sup[:-1]])
    highs = _highs._Highs()
    highs.passOptions(_LP_OPTIONS[tight])
    # The array overload reads every buffer in place, while a HighsLp built
    # from Python copies its fields element by element, all under the GIL.
    # It reads an integrality entry per column, so all-continuous is passed
    # explicitly; linprog passes none, which HiGHS treats the same.
    highs.passModel(n, n_r + n_c - 1, index.size, _COLWISE, _MINIMIZE, 0.0,
                    sub_cost.ravel(), np.zeros(n),
                    np.full(n, _highs.kHighsInf), b_eq, b_eq, start, index,
                    np.ones(index.size), np.zeros(n, dtype=np.int32))
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
